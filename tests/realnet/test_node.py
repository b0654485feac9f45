"""In-process realnet tests: one fabric dialling its own listener.

Everything here runs on a single asyncio loop — the node and the
client share the fabric, and ``run_until_true`` runs the loop for both
sides (each side's callbacks wake the wait; see ``realnet.fabric``), so
the tests exercise real sockets without spawning processes.
"""

import socket

import pytest

from repro.realnet.fabric import AsyncioFabric
from repro.realnet.node import RealNode
from repro.realnet.pmd import RealPmd
from repro.realnet.registry import HostRegistry
from repro.unixsim.inetd import INETD_SERVICE, PPM_SERVICE


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


@pytest.fixture
def node(fabric):
    node = RealNode(fabric, "alpha", fabric.registry)
    node.start()
    yield node
    node.close()


def test_port_zero_discovery_and_publication(fabric, node):
    """Binding port 0 discovers the kernel's choice and publishes it."""
    assert node.port is not None and node.port > 0
    assert fabric.registry.lookup("alpha") == ("127.0.0.1", node.port)


def test_connect_delivers_messages_both_ways(fabric, node):
    server_log, client_log = [], []

    def acceptor(endpoint, payload):
        server_log.append(payload)
        endpoint.on_message = \
            lambda frame, ep: (server_log.append(frame),
                               ep.send({"echo": frame}))
        endpoint.send({"greeting": "hi"})

    node.listen("echo", acceptor)
    holder = {}

    def established(endpoint):
        # Handlers install inside on_established — the contract's
        # guarantee that no frame can slip past them.
        endpoint.on_message = lambda frame, ep: client_log.append(frame)
        holder["ep"] = endpoint

    fabric.connect("tester", "alpha", "echo", payload={"n": 1},
                   on_established=established)
    assert fabric.run_until_true(lambda: "ep" in holder,
                                 timeout_ms=5_000)
    holder["ep"].send({"ping": True})
    assert fabric.run_until_true(
        lambda: len(client_log) >= 2 and len(server_log) >= 2,
        timeout_ms=5_000)
    assert server_log[0] == {"n": 1}
    assert server_log[1] == {"ping": True}
    assert client_log[0] == {"greeting": "hi"}
    assert client_log[1] == {"echo": {"ping": True}}


def test_unknown_service_is_refused(fabric, node):
    failures = []
    fabric.connect("tester", "alpha", "nope",
                   on_established=lambda ep: failures.append("bad"),
                   on_failed=lambda reason: failures.append(reason))
    assert fabric.run_until_true(lambda: bool(failures),
                                 timeout_ms=5_000)
    assert "no such service" in failures[0]


def test_unknown_host_fails_fast(fabric):
    failures = []
    fabric.connect("tester", "ghost", "echo",
                   on_failed=lambda reason: failures.append(reason))
    assert fabric.run_until_true(lambda: bool(failures),
                                 timeout_ms=5_000)
    assert "not in registry" in failures[0]


def test_peer_sees_close_initiator_does_not(fabric, node):
    """netsim close semantics over real sockets: the peer's on_close
    fires via EOF; the initiator's own handler does not."""
    server_side, events = {}, []

    def acceptor(endpoint, payload):
        server_side["ep"] = endpoint
        endpoint.on_close = lambda reason, ep: events.append(
            ("server", reason))

    node.listen("quiet", acceptor)
    holder = {}
    fabric.connect("tester", "alpha", "quiet",
                   on_established=lambda ep: holder.update(ep=ep))
    assert fabric.run_until_true(lambda: "ep" in holder and
                                 "ep" in server_side, timeout_ms=5_000)
    client_ep = holder["ep"]
    client_ep.on_close = lambda reason, ep: events.append(
        ("client", reason))
    client_ep.close()
    assert fabric.run_until_true(
        lambda: ("server", "closed") in events, timeout_ms=5_000)
    assert ("client", "closed") not in events
    assert not client_ep.open


def test_lpm_shutdown_unlistens_accept_service(fabric, node):
    """The orphaned-listener bug: after an LPM shuts down, dialling its
    old accept service must be refused, not half-served."""
    pmd = RealPmd(fabric, node)
    replies = []

    def on_bootstrap(payload, endpoint):
        replies.append(payload)
        endpoint.close()

    fabric.connect(
        "tester", "alpha", INETD_SERVICE,
        payload={"service": PPM_SERVICE, "user": "lfc",
                 "origin_host": "alpha", "origin_user": "lfc"},
        on_established=lambda ep: setattr(ep, "on_message",
                                          on_bootstrap))
    assert fabric.run_until_true(lambda: bool(replies),
                                 timeout_ms=5_000)
    accept_service = replies[0]["accept_service"]
    assert accept_service in node.services

    lpm = pmd.lpms["lfc"]
    lpm.shutdown()
    assert accept_service not in node.services
    failures = []
    fabric.connect("tester", "alpha", accept_service,
                   payload={"role": "tool"},
                   on_established=lambda ep: failures.append("bad"),
                   on_failed=lambda reason: failures.append(reason))
    assert fabric.run_until_true(lambda: bool(failures),
                                 timeout_ms=5_000)
    assert "no such service" in failures[0]
    pmd.shutdown()


def test_node_close_withdraws_registry_entry(fabric):
    node = RealNode(fabric, "alpha", fabric.registry)
    node.start()
    assert fabric.registry.lookup("alpha") is not None
    node.close()
    assert fabric.registry.lookup("alpha") is None


def test_node_forgets_endpoints_once_closed(fabric, node):
    """Accepted endpoints leave the node's set when either side closes
    them; only the ones still open stay referenced."""
    server_side = []
    node.listen("cycle", lambda endpoint, payload:
                server_side.append(endpoint))
    kept = None
    clients = []        # the caller holds its endpoints, as PPMClient does
    for cycle in range(20):
        holder = {}
        fabric.connect("tester", "alpha", "cycle",
                       on_established=lambda ep: (holder.update(ep=ep),
                                                  clients.append(ep)))
        assert fabric.run_until_true(
            lambda: "ep" in holder and len(server_side) == cycle + 1,
            timeout_ms=5_000)
        if cycle == 7:
            kept = server_side[-1]
        elif cycle % 2:
            server_side[-1].close()
            assert fabric.run_until_true(lambda: not holder["ep"].open,
                                         timeout_ms=5_000)
        else:
            holder["ep"].close()
        assert fabric.run_until_true(
            lambda: node._accepted == {kept} - {None}, timeout_ms=5_000)
    assert kept.open and node._accepted == {kept}
