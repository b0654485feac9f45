"""Tests for the datagram transport (the paper's scalability alternative)."""

from repro.netsim import DatagramTransport, Network, Simulator


def build():
    sim = Simulator()
    net = Network(sim)
    for name in ("a", "b"):
        net.add_node(name)
    net.ethernet(["a", "b"])
    return sim, net, DatagramTransport(net)


def test_send_and_receive():
    sim, net, dgram = build()
    received = []
    dgram.bind("b", "lpm", lambda payload, src: received.append((payload, src)))
    dgram.send("a", "b", "lpm", "ping")
    sim.run_for(1_000.0)
    assert received == [("ping", "a")]


def test_no_connection_state_kept():
    sim, net, dgram = build()
    dgram.bind("b", "lpm", lambda payload, src: None)
    for _ in range(10):
        dgram.send("a", "b", "lpm", "x")
    sim.run_for(1_000.0)
    assert net.open_connection_count() == 0
    assert net.stats.datagrams_sent == 10


def test_per_message_auth_cost_charged():
    sim, net, dgram = build()
    arrivals = []
    dgram.bind("b", "lpm", lambda payload, src: arrivals.append(sim.now_ms))
    dgram.send("a", "b", "lpm", "x", nbytes=112)
    sim.run_for(1_000.0)
    wire = net.transit_delay_ms("a", "b", 112)
    assert arrivals[0] >= wire + dgram.cost_model.datagram_auth_ms


def test_dropped_when_unreachable():
    sim, net, dgram = build()
    drops = []
    net.crash_host("b")
    dgram.send("a", "b", "lpm", "x", on_dropped=drops.append)
    sim.run_for(1_000.0)
    assert drops == ["unreachable"]
    assert net.stats.datagrams_dropped == 1


def test_dropped_when_host_dies_in_flight():
    sim, net, dgram = build()
    received = []
    dgram.bind("b", "lpm", lambda payload, src: received.append(payload))
    dgram.send("a", "b", "lpm", "x")
    net.crash_host("b")
    sim.run_for(1_000.0)
    assert received == []
    assert net.stats.datagrams_dropped == 1


def test_dropped_without_binding():
    sim, net, dgram = build()
    drops = []
    dgram.send("a", "b", "nobody-home", "x", on_dropped=drops.append)
    sim.run_for(1_000.0)
    assert drops == ["port unreachable"]


def test_unbind_stops_delivery():
    sim, net, dgram = build()
    received = []
    dgram.bind("b", "lpm", lambda payload, src: received.append(payload))
    dgram.unbind("b", "lpm")
    dgram.send("a", "b", "lpm", "x")
    sim.run_for(1_000.0)
    assert received == []


def test_ping_pong_after_idle_stretch_under_distant_timer():
    # An idle run_for while a timer is pending far in the future must
    # not disturb the next exchange: the ping is issued at the current
    # instant, found, and answered, and the distant timer stays queued.
    sim = Simulator(seed=3)
    net = Network(sim)
    names = ["a", "b", "c", "d"]
    for name in names:
        net.add_node(name)
    net.ethernet(names, latency_ms=5.0)
    dgram = DatagramTransport(net)
    inbox = {name: [] for name in names}

    def on_b(payload, src):
        inbox["b"].append(payload)
        dgram.send("b", src, "p", "pong")

    for name in names:
        if name == "b":
            dgram.bind(name, "p", on_b)
        else:
            dgram.bind(name, "p",
                       lambda payload, src, _n=name:
                       inbox[_n].append(payload))
    sim.schedule_at(600_000.0, lambda: None, label="distant")

    sim.run_for(1_000.0)
    assert sim.now_ms == 1_000.0
    sim.schedule_at(sim.now_ms, lambda: dgram.send("a", "b", "p", "ping"))
    assert sim.run_until_true(lambda: len(inbox["a"]) == 1,
                              timeout_ms=60_000.0)
    assert sum(len(received) for received in inbox.values()) == 2
    assert inbox["b"] == ["ping"] and inbox["a"] == ["pong"]
    assert 1_000.0 < sim.now_ms < 600_000.0
    assert len(sim.queue) == 1
