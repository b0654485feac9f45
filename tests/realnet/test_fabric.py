"""The event-driven wait of ``AsyncioFabric.run_until_true``.

One in-process loop, no subprocesses.  Each wake-point test parks a
wait on a predicate that only that wake point can make true, with a
long deadline: a wake point that forgot ``fabric.notify()`` would leave
the wait asleep until the deadline.  Predicate evaluations are counted
to show the wait is woken, not polled.
"""

import asyncio
import socket
import time

import pytest

from repro.realnet.fabric import AsyncioFabric
from repro.realnet.framing import FrameDecoder, encode_frame
from repro.realnet.node import RealNode
from repro.realnet.registry import HostRegistry

#: Deadline of every wake-point wait; a missed wake sleeps this long.
LONG_MS = 10_000.0


def _loopback_available() -> bool:
    try:
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.bind(("127.0.0.1", 0))
        probe.close()
        return True
    except OSError:
        return False


pytestmark = pytest.mark.skipif(not _loopback_available(),
                                reason="loopback sockets unavailable")


@pytest.fixture
def fabric(tmp_path):
    registry = HostRegistry(str(tmp_path / "reg.json"))
    fabric = AsyncioFabric(registry, local_host="alpha")
    yield fabric
    fabric.close()


class Counted:
    """A predicate that counts its evaluations."""

    def __init__(self, predicate) -> None:
        self.predicate = predicate
        self.calls = 0

    def __call__(self) -> bool:
        self.calls += 1
        return self.predicate()


def _woken(fabric, predicate) -> Counted:
    """Wait on ``predicate`` and check a wake point, not the deadline,
    ended the wait."""
    counted = Counted(predicate)
    start = time.monotonic()
    assert fabric.run_until_true(counted, timeout_ms=LONG_MS)
    assert time.monotonic() - start < LONG_MS / 2000.0
    return counted


@pytest.fixture
def bare_peer(fabric):
    """A host "beta" served by a plain asyncio server on the fabric's
    loop: it answers the dial handshake, then runs the test's script.
    None of its code calls ``notify()``, so only the client endpoint's
    own wake points can end a wait."""
    scripts = []

    async def handle(reader, writer):
        decoder = FrameDecoder()
        hello = []
        while not hello:
            data = await reader.read(65536)
            if not data:
                return
            hello = decoder.feed(data)
        writer.write(encode_frame({"ok": True, "host": "beta"}))
        await scripts.pop(0)(writer)

    server = fabric.loop.run_until_complete(
        asyncio.start_server(handle, "127.0.0.1", 0))
    fabric.registry.publish("beta", "127.0.0.1",
                            server.sockets[0].getsockname()[1])
    yield scripts
    server.close()
    fabric.loop.run_until_complete(server.wait_closed())


def _dial_beta(fabric):
    holder = {"frames": [], "closed": []}

    def established(endpoint):
        endpoint.on_message = \
            lambda frame, ep: holder["frames"].append(frame)
        endpoint.on_close = \
            lambda reason, ep: holder["closed"].append(reason)
        holder["ep"] = endpoint

    fabric.connect("tester", "beta", "any", on_established=established)
    _woken(fabric, lambda: "ep" in holder)
    return holder


def test_already_true_predicate_does_not_run_the_loop(fabric):
    ran = []
    fabric.loop.call_soon(ran.append, True)
    counted = Counted(lambda: True)
    assert fabric.run_until_true(counted, timeout_ms=LONG_MS)
    assert counted.calls == 1
    assert not ran


def test_timed_out_wait_returns_false_at_its_deadline(fabric):
    start = time.monotonic()
    assert not fabric.run_until_true(lambda: False, timeout_ms=200)
    assert time.monotonic() - start >= 0.2


def test_idle_wait_evaluates_the_predicate_a_handful_of_times(fabric):
    counted = Counted(lambda: False)
    assert not fabric.run_until_true(counted, timeout_ms=300)
    assert counted.calls <= 3


def test_scheduled_timer_wakes_the_wait(fabric):
    fired = []
    fabric.schedule(50, fired.append, True)
    counted = _woken(fabric, lambda: bool(fired))
    assert counted.calls <= 3


def test_incoming_frame_wakes_the_wait(fabric, bare_peer):
    async def send_later(writer):
        await asyncio.sleep(0.05)
        writer.write(encode_frame({"late": True}))
        await asyncio.sleep(LONG_MS / 1000.0)

    bare_peer.append(send_later)
    holder = _dial_beta(fabric)
    counted = _woken(fabric, lambda: bool(holder["frames"]))
    assert holder["frames"] == [{"late": True}]
    assert counted.calls <= 3


def test_peer_close_wakes_the_wait(fabric, bare_peer):
    async def close_later(writer):
        await asyncio.sleep(0.05)
        writer.close()

    bare_peer.append(close_later)
    holder = _dial_beta(fabric)
    counted = _woken(fabric, lambda: bool(holder["closed"]))
    assert holder["closed"] == ["closed"]
    assert not holder["ep"].open
    assert counted.calls <= 3


def test_dial_to_unregistered_host_wakes_the_wait(fabric):
    failures = []
    fabric.connect("tester", "ghost", "any",
                   on_failed=failures.append)
    counted = _woken(fabric, lambda: bool(failures))
    assert "not in registry" in failures[0]
    assert counted.calls <= 3


def test_acceptor_side_effect_wakes_the_wait(fabric):
    """Node and client share one fabric; the client is a raw socket, so
    only the node's acceptor call can end the wait."""
    node = RealNode(fabric, "alpha", fabric.registry)
    node.start()
    accepted = []
    node.listen("svc", lambda endpoint, payload: accepted.append(payload))
    writers = []

    async def raw_dial():
        _reader, writer = await asyncio.open_connection(
            "127.0.0.1", node.port)
        writer.write(encode_frame({"connect": "svc", "src": "raw",
                                   "payload": {"n": 7}}))
        writers.append(writer)

    fabric.loop.create_task(raw_dial())
    _woken(fabric, lambda: bool(accepted))
    assert accepted == [{"n": 7}]
    writers[0].close()
    node.close()
