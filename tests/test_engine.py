"""Event ordering, delivery and filtering, determinism, conservation."""

import ast
import enum
import gc
import hashlib
import heapq
import ipaddress
import json
import re
from collections import Counter
from unittest import mock

import pytest

from conftest import (
    SCENARIO_DIR,
    attach,
    attrs,
    build_on,
    counting,
    eui64_host,
    link_text,
    load,
    matches_reference,
    queued,
    queued_deliveries,
    queued_timers,
    records,
    run_scenario,
    scenario_path,
)

import slaacsim.engine as engine_module
import slaacsim.host as host_module
import slaacsim.scenario

from slaacsim.addressing import Ipv6Address, MacAddress, Prefix
from slaacsim.attacker import Attacker, AttackMode
from slaacsim.defense import PortClass, SwitchPort, verify_ra
from slaacsim.engine import (
    TRACE_KEYS,
    AdvertisedPrefixes,
    AttackDirective,
    Deliver,
    Engine,
    MeasureDirective,
    ScenarioError,
    SimInvariantError,
    ToggleDirective,
    TraceRecord,
)
from slaacsim.host import AddressState, Host, receive_ra
from slaacsim.messages import (
    NeighborSolicitation,
    PrefixInfo,
    RouterAdvertisement,
    RouterPreference,
    RouterSolicitation,
    Timer,
)
from slaacsim.router import Router
from slaacsim.scenario import build_engine, evaluate_expects, parse_scenario

A1_MAC = MacAddress.parse("00:00:5e:00:53:66")
A1_IP = Ipv6Address.parse("fe80::66")


def all_scenarios():
    return sorted(p.stem for p in SCENARIO_DIR.glob("*.txt"))


def test_empty_queue_returns_immediately(engine):
    engine.run_until(10_000)
    assert engine.trace_records == [] and engine.now == 10_000
    assert engine.trace_text() == ""


def test_same_time_events_run_in_schedule_order(engine):
    order = []

    class Probe:
        def __init__(self, name):
            self.node_id = name

        def on_timer(self, ctx, timer, now):
            order.append(self.node_id)

    for name in ("N1", "N2", "N3"):
        attach(engine, Probe(name))
    engine.set_timer("N2", Timer.RA, 5)
    engine.set_timer("N1", Timer.RA, 5)
    engine.set_timer("N3", Timer.RA, 5)
    engine.run_until(5)
    assert order == ["N2", "N1", "N3"]


def test_scheduling_into_the_past_raises(engine):
    engine.now = 100
    with pytest.raises(SimInvariantError):
        engine.schedule(99, MeasureDirective())
    with pytest.raises(SimInvariantError):
        engine.set_timer("N1", Timer.RA, 99)
    assert queued(engine) == []


def spoofable_ra() -> RouterAdvertisement:
    return RouterAdvertisement(A1_MAC, A1_IP, 1800, RouterPreference.HIGH)


def three_node_link(guard_attacker: bool) -> Engine:
    engine = Engine(link_latency_ms=1, seed=0, two_hour_rule=False, switch_id="SW1")
    host_port = PortClass.HOST_FACING
    h1, h2 = MacAddress.parse("00:1a:2b:3c:4d:5e"), MacAddress.parse("00:1a:2b:3c:4d:5f")
    engine.add_node(eui64_host("H1", h1), SwitchPort("p1", host_port, False, None))
    engine.add_node(eui64_host("H2", h2), SwitchPort("p2", host_port, False, None))
    engine.add_node(Attacker("A1", None), SwitchPort("p3", host_port, guard_attacker, None))
    return engine


def test_broadcast_reaches_every_other_node():
    engine = three_node_link(guard_attacker=False)
    engine.broadcast("A1", spoofable_ra(), 0)
    engine.run_until(10)
    m = engine.metrics
    assert m.emitted == 2 and m.delivered == 2 and m.dropped == 0
    assert len(records(engine, "ra-received")) == 2


def test_guarded_broadcast_yields_drop_records_per_recipient():
    engine = three_node_link(guard_attacker=True)
    engine.broadcast("A1", spoofable_ra(), 0)
    engine.run_until(10)
    drops = records(engine, "ra-dropped")
    assert engine.metrics.delivered == 0 and engine.metrics.dropped == 2
    assert len(drops) == 2
    assert {attrs(d)["dst"] for d in drops} == {"H1", "H2"}
    assert all(attrs(d)["reason"] == "ra-guard" and attrs(d)["port"] == "p3" for d in drops)
    assert all(d.node == "SW1" for d in drops)


def test_broadcast_queues_one_entry_per_emission():
    engine = three_node_link(guard_attacker=False)
    engine.broadcast("A1", spoofable_ra(), 0)
    (entry,) = queued(engine)
    assert entry[2].dsts == ("H1", "H2")
    lone = Engine(link_latency_ms=1, seed=0, two_hour_rule=False, switch_id="SW1")
    attach(lone, eui64_host("H1", MacAddress.parse("00:1a:2b:3c:4d:5e")))
    lone.broadcast("H1", spoofable_ra(), 0)
    assert queued(lone) == [] and lone.metrics.emitted == 0


def test_node_added_after_a_broadcast_receives_the_next():
    # Each sender's receivers are kept between broadcasts; a node that joins
    # is among them from its sender's next broadcast on.
    engine = three_node_link(guard_attacker=False)
    engine.broadcast("A1", spoofable_ra(), 0)
    attach(engine, eui64_host("H3", MacAddress.parse("00:1a:2b:3c:4d:60")))
    engine.broadcast("A1", spoofable_ra(), 0)
    first, second = (action.dsts for _, _, action in queued(engine))
    assert first == ("H1", "H2") and second == ("H1", "H2", "H3")
    assert engine.metrics.emitted == engine.metrics.in_flight == 5


# Each host's solicitation reaches both routers, which answer at once; at
# latency 0 an answer handled inside the batch would land before the second
# router has seen the solicitation.
TWO_ROUTERS = """\
switch SW1 ports=4
node router R1 mac=00:00:5e:00:53:01 prefix=2001:db8:1::/64
node router R2 mac=00:00:5e:00:53:02 prefix=2001:db8:2::/64 preference=high
node host H1 mac=00:1a:2b:3c:4d:5e
node host H2 mac=00:1a:2b:3c:4d:5f
attach R1 SW1.p1 class=router
attach R2 SW1.p2 class=router
attach H1 SW1.p3 class=host
attach H2 SW1.p4 class=host
at 3 measure
run 4
"""


# The corpus and TWO_ROUTERS against the reference simulator
# (tests/reference.py), which has each path the engine's own replaced: one
# queue entry per receiver, every receiver called, every timer booked and
# one (time, seq) heap. Each input runs here at 0 and at 2 ms; a corpus file
# runs at its own latency in tests/test_host.py, TWO_ROUTERS in
# tests/test_reference.py.
def at_latency(name, latency):
    sc = slaacsim.scenario.parse_scenario(TWO_ROUTERS) if name == "two-routers" else load(name)
    sc.link_latency_ms = latency
    return sc


@pytest.mark.parametrize("name", all_scenarios() + ["two-routers"])
def test_batched_delivery_matches_per_receiver_entries(name):
    # One entry per emission is exact only if no event can run between its
    # receivers and they are served in node order; latency 0 books replies
    # at the very time of the batch.
    matches_reference(at_latency(name, 0))


@pytest.mark.parametrize("name", all_scenarios() + ["two-routers"])
def test_calendar_queue_matches_the_heap_queue(name):
    # Serving each due time's bucket in booking order is exact only if it
    # is the (time, seq) order of one heap.
    matches_reference(at_latency(name, 2))


# A run of hosts broken by an attacker and by a second router, then a
# send=on host, an IPv6-off host and H4, whose MAC is H1's: H1 wins DAD for
# the link-local address, and H4 loses it and then each global address.
MIXED_ORDER = """\
switch SW1 ports=7
node router R1 mac=00:00:5e:00:53:01 prefix=2001:db8:1::/64 interval=3
node host H1 mac=00:1a:2b:3c:4d:5e
node attacker A1 mac=00:00:5e:00:53:66 persona-prefix=2001:db8:bad::/64 persona-preference=high persona-interval=4
node router R2 mac=00:00:5e:00:53:02 prefix=2001:db8:2::/64 interval=5
node host H2 mac=00:1a:2b:3c:4d:5f send=on
node host H3 mac=00:1a:2b:3c:4d:60 ipv6=off
node host H4 mac=00:1a:2b:3c:4d:5e
attach R1 SW1.p1 class=router
attach H1 SW1.p2 class=host
attach A1 SW1.p3 class=host
attach R2 SW1.p4 class=router
attach H2 SW1.p5 class=host
attach H3 SW1.p6 class=host
attach H4 SW1.p7 class=host
key R1 k1
trust k1
allow-dup-mac
at 5 attack A1 fake-router
at 9 measure
run 12
"""


class BareHost(Host):
    """A Host subclass that overrides nothing."""


# Each latency with every host a plain Host, with Host.on_message (the DAD
# probe handler) wrapped by a pass-through counter (as a profiler wraps it),
# and with every host a BareHost.
MIXED_RUNS = [
    pytest.param(latency, way, id=f"{latency}" + ("" if way == "plain" else f"-{way}"))
    for latency in (0, 1, 2)
    for way in ("plain", "wrapped", "subclass")
]


@pytest.mark.parametrize("latency,way", MIXED_RUNS)
def test_mixed_receiver_order_matches_both_oracles(latency, way, monkeypatch):
    # The plain run matches the reference simulator, which calls every
    # receiver and takes an RA in four steps; a wrapped or subclassed host
    # changes nothing, and the wrapper hears only NS.
    sc = slaacsim.scenario.parse_scenario(MIXED_ORDER)
    sc.link_latency_ms = latency
    plain = matches_reference(sc)
    heard = Counter()
    if way == "wrapped":
        on_message = Host.on_message

        def counted(node, ctx, msg, sender_id, now):
            heard[type(msg).__name__] += 1
            on_message(node, ctx, msg, sender_id, now)

        monkeypatch.setattr(Host, "on_message", counted)
    host_class = BareHost if way == "subclass" else Host
    with mock.patch.object(host_module, "verify_ra", wraps=verify_ra) as verify:
        engine = build_on(sc, Engine, host_class)
        assert {type(n) for n in engine.nodes.values() if isinstance(n, Host)} == {host_class}
        metrics = engine.execute(sc.run_ms)
        output = engine.trace_text() + "\n".join(metrics.to_lines())
        # One verdict per delivery that reaches the send=on host.
        assert verify.call_count == len([r for r in records(engine, "ra-received") if r.node == "H2"])
    assert verify.call_count > 0
    if way == "wrapped":
        assert set(heard) == {"NeighborSolicitation"}
    assert output == plain
    # Each kind of receiver in the mix acted, and the DAD conflict happened.
    made = {(r.node, r.kind) for r in map(TraceRecord._make, engine.trace_records)}
    assert made >= {
        ("H2", "ra-rejected-send"), ("H2", "router-added"), ("A1", "ra-captured"),
        ("H3", "ra-received"), ("H4", "dad-failed"),
    }


# Short lifetimes put H1's timers inside the run: its DAD deadlines (1000 and
# 1001 ms), then the router and address expiries that R1's first RA books
# (3001, 5001) and those its answer to H1's RS books (4002, 6002), which
# remove R1 and abandon the global address.
SHORT_LIFETIMES = """\
switch SW1 ports=2
node router R1 mac=00:00:5e:00:53:01 prefix=2001:db8:1::/64 lifetime=3 valid=5 preferred=4 interval=600
node host H1 mac=00:1a:2b:3c:4d:5e
attach R1 SW1.p1 class=router
attach H1 SW1.p2 class=host
run 10
"""
DUE_MS = (1000, 1001, 3001, 4002, 5001, 6002)


def test_horizon_matches_queueing_every_timer_at_each_end_near_a_due_time():
    # The reference books every timer. A timer due at the very end must
    # still fire; one due a millisecond later must not be served.
    sc = slaacsim.scenario.parse_scenario(SHORT_LIFETIMES)
    full = matches_reference(sc)
    assert "t=4002 node=H1 kind=router-removed" in full
    assert "t=6002 node=H1 kind=addr-abandoned" in full
    for t_end in sorted({due + d for due in DUE_MS for d in range(-2, 3)}):
        matches_reference(sc, t_end)


def test_execute_queues_no_timer_due_after_the_end():
    sc = slaacsim.scenario.parse_scenario(SHORT_LIFETIMES)
    # Without a stated end (run_until alone), every timer is queued.
    unbounded = slaacsim.scenario.build_engine(sc)
    engine = slaacsim.scenario.build_engine(sc)
    unbounded.run_until(3000)
    engine.execute(3000)
    assert [at for at, *_ in queued_timers(unbounded)] == [3001, 4002, 5001, 6002, 600_000]
    assert queued_timers(engine) == []
    # Nor a delivery: H1 assigns its link-local address at 1000 ms and sends
    # its RS, due at 1001, which stays in flight. A script step booked before
    # execute states the end is served at the end.
    unbounded = slaacsim.scenario.build_engine(sc)
    engine = slaacsim.scenario.build_engine(sc)
    for e in (unbounded, engine):
        e.schedule(1000, MeasureDirective())
    unbounded.run_until(1000)
    engine.execute(1000)
    assert [(at, dst) for at, dst, _ in queued_deliveries(unbounded)] == [(1001, "R1")]
    assert queued(engine) == []
    assert engine.metrics.in_flight == unbounded.metrics.in_flight == 1
    assert [r.time for r in records(engine, "path-resolved")] == [1000]


def test_timer_due_at_the_end_fires():
    engine = slaacsim.scenario.build_engine(slaacsim.scenario.parse_scenario(SHORT_LIFETIMES))
    engine.execute(4002)
    assert [r.time for r in records(engine, "router-removed")] == [4002]


def test_run_until_cannot_pass_the_end_of_an_executed_run(engine):
    engine.execute(100)
    engine.run_until(100)
    with pytest.raises(SimInvariantError, match="cannot run past the run's end"):
        engine.run_until(101)


def test_run_until_cannot_move_the_clock_back(engine):
    engine.run_until(100)
    engine.run_until(100)  # the present is a legal end
    with pytest.raises(SimInvariantError, match=r"cannot run back in time \(50 < 100\)"):
        engine.run_until(50)
    assert engine.now == 100
    with pytest.raises(SimInvariantError, match="cannot schedule into the past"):
        engine.set_timer("N1", Timer.RA, 60)


def test_run_until_alone_queues_every_timer(engine):
    # Only execute() states where the run ends.
    engine.run_until(5)
    engine.set_timer("N1", Timer.RA, 10**12)
    assert queued_timers(engine) == [(10**12, "N1", Timer.RA)]


class ServedLog:
    """A node that logs each timer and message it is served, as (time,
    node, what), into ``log``; ``on_fire(ctx, now)`` runs after its timer's
    entry."""

    def __init__(self, node_id, log, on_fire=None):
        self.node_id, self.log, self.on_fire = node_id, log, on_fire

    def on_timer(self, ctx, timer, now):
        self.log.append((now, self.node_id, "timer"))
        if self.on_fire is not None:
            self.on_fire(ctx, now)

    def on_message(self, ctx, msg, sender_id, now):
        self.log.append((now, self.node_id, type(msg).__name__))


def zero_latency_engine() -> Engine:
    return Engine(link_latency_ms=0, seed=0, two_hour_rule=False, switch_id="SW1")


def served_in_one_millisecond():
    """At latency 0, N1's timer at 5 ms broadcasts an RA, so its delivery is
    booked for 5 ms, then books N3's timer for 5 ms; N2's timer was due at
    5 ms before either."""
    engine, log = zero_latency_engine(), []

    def fire(ctx, now):
        ctx.broadcast("N1", spoofable_ra(), now)
        ctx.set_timer("N3", Timer.RA, now)

    attach(engine, ServedLog("N1", log, fire))
    attach(engine, ServedLog("N2", log))
    attach(engine, ServedLog("N3", log))
    engine.set_timer("N1", Timer.RA, 5)
    engine.set_timer("N2", Timer.RA, 5)
    engine.run_until(5)
    assert engine.metrics.in_flight == 0
    return log


def test_delivery_booked_for_the_millisecond_served_runs_after_what_was_due():
    log = served_in_one_millisecond()
    assert log == [
        (5, "N1", "timer"),
        (5, "N2", "timer"),
        (5, "N2", "RouterAdvertisement"),
        (5, "N3", "RouterAdvertisement"),
        (5, "N3", "timer"),
    ]


# At latency 0, A1's fake-router play at 5 s advertises R1's prefix with a
# valid lifetime of 0. H1, which has held the address since 1 s, books its
# expiry tick for the very millisecond, in a bucket opened while the
# delivery's own bucket, opened by the play, is served.
VALID_ZERO = """\
link-latency 0
switch SW1 ports=3
node router R1 mac=00:00:5e:00:53:01 prefix=2001:db8:1::/64
node attacker A1 mac=00:00:5e:00:53:66 persona-prefix=2001:db8:1::/64 persona-valid=0 persona-preferred=0
node host H1 mac=00:1a:2b:3c:4d:5e
attach R1 SW1.p1 class=router
attach A1 SW1.p2 class=host
attach H1 SW1.p3 class=host
at 5 attack A1 fake-router
run 6
"""


def test_valid_zero_for_a_held_address_drops_it_in_the_same_millisecond():
    bookings = []

    class BookingLog(Engine):
        def set_timer(self, node_id, timer, at_ms):
            bookings.append((self.now, node_id, timer, at_ms))
            super().set_timer(node_id, timer, at_ms)

    sc = slaacsim.scenario.parse_scenario(VALID_ZERO)
    engine = build_on(sc, BookingLog)
    engine.execute(sc.run_ms)
    assert (5000, "H1", Timer.EXPIRY, 5000) in bookings
    address = "2001:db8:1:0:21a:2bff:fe3c:4d5e"
    h1_records = [TraceRecord._make(r) for r in engine.trace_records if r[1] == "H1"]
    assert [(r.time, r.kind, dict(r.attrs)) for r in h1_records[-3:]] == [
        (5000, "addr-lifetime", {"addr": address, "valid_ms": "0"}),
        (5000, "addr-abandoned", {"addr": address, "reason": "expired"}),
        (6000, "path-resolved", {"outcome": "unreachable", "via": "-", "family": "-"}),
    ]
    assert all(str(e.address) != address for e in engine.nodes["H1"].addresses.values())


def served_after_a_second_run_to_the_same_end():
    engine, log = zero_latency_engine(), []
    attach(engine, ServedLog("N1", log))
    engine.run_until(5)
    engine.set_timer("N1", Timer.RA, 5)
    assert log == []
    engine.run_until(5)
    assert engine.now == 5
    return engine, log


def test_second_run_until_to_the_same_end_serves_a_timer_booked_there():
    engine, log = served_after_a_second_run_to_the_same_end()
    assert log == [(5, "N1", "timer")]
    assert queued(engine) == []


def test_each_node_hears_only_the_kinds_it_acts_on(monkeypatch):
    # Keyed by (class, message kind, way in): a node's on_message, where an
    # NS also says whether the node claimed its target, or, for a host that
    # an RA reaches, the engine's receive_ra. An NA reaches the wire and
    # calls no one.
    calls = Counter()

    def counting(cls):
        on_message = cls.on_message

        def counted(node, ctx, msg, sender_id, now):
            way = "on_message"
            if isinstance(msg, NeighborSolicitation):
                way = "claimed" if node.node_id in ctx._claims.get(msg.target, ()) else "unclaimed"
            calls[cls.__name__, type(msg).__name__, way] += 1
            on_message(node, ctx, msg, sender_id, now)

        monkeypatch.setattr(cls, "on_message", counted)

    receive_ra = engine_module.receive_ra

    def counted_ra(ctx, ra, sender_id, receivers, now):
        receivers = list(receivers)
        for node in receivers:
            if isinstance(node, Host):
                calls["Host", type(ra).__name__, "receive_ra"] += 1
        receive_ra(ctx, ra, sender_id, receivers, now)

    for cls in (Host, Router, Attacker):
        counting(cls)
    monkeypatch.setattr(engine_module, "receive_ra", counted_ra)
    na_sent = rs_reach = 0
    for name in all_scenarios():
        _, engine, _ = run_scenario(name)
        na_sent += len(records(engine, "na-sent"))
        # An RS calls each router but its sender, once.
        routers = [node_id for node_id, node in engine.nodes.items() if isinstance(node, Router)]
        rs_reach += sum(
            sum(1 for router in routers if router != rs.node) for rs in records(engine, "rs-sent")
        )
    assert na_sent > 0
    assert calls["Router", "RouterSolicitation", "on_message"] == rs_reach > 0
    assert set(calls) == {
        ("Host", "RouterAdvertisement", "receive_ra"),
        ("Host", "NeighborSolicitation", "claimed"),
        ("Attacker", "RouterAdvertisement", "on_message"),
        ("Router", "RouterSolicitation", "on_message"),
    }


def test_ns_reaches_a_sole_claimant_that_did_not_send_it(engine):
    # A DAD probe whose sender is the target's only claimant calls nobody;
    # a probe from a node that claims nothing reaches the claimant.
    h1, h2 = eui64_host("H1", A1_MAC), eui64_host("H2", MacAddress.parse("00:1a:2b:3c:4d:5e"))
    attach(engine, h1)
    attach(engine, h2)
    h1.begin_autoconf(engine, 0)
    engine.run_until(1000)
    [entry] = h1.addresses.values()
    assert entry.state is AddressState.ASSIGNED and not records(engine, "na-sent")
    engine.broadcast("H2", NeighborSolicitation(entry.address), 1000)
    engine.run_until(1001)
    assert [(r.node, attrs(r)["target"]) for r in records(engine, "na-sent")] == [
        ("H1", str(entry.address))
    ]


@pytest.mark.parametrize("name", all_scenarios())
def test_every_host_address_is_claimed_by_its_host(name):
    # Each entry is also held under its own address, and each default
    # router under its own router_ip: one entry per key.
    _, engine, _ = run_scenario(name)
    for node in engine.nodes.values():
        if isinstance(node, Host):
            for address, entry in node.addresses.items():
                assert address == entry.address, f"{node.node_id} {address} {entry}"
                assert node.node_id in engine._claims[entry.address], f"{node.node_id} {entry}"
            for router_ip, router in node.router_list.items():
                assert router_ip == router.router_ip, f"{node.node_id} {router_ip} {router}"


def test_in_flight_counts_pending_receivers_not_entries():
    # R1's RA (t=0) lands at 300 ms and starts each host's DAD probe for its
    # global address; those two probes are still on the wire when the run
    # ends at 500 ms.
    from slaacsim.scenario import build_engine, parse_scenario

    text = """\
link-latency 0.3
switch SW1 ports=3
node router R1 mac=00:00:5e:00:53:01 prefix=2001:db8:1::/64
node host H1 mac=00:1a:2b:3c:4d:5e
node host H2 mac=00:1a:2b:3c:4d:5f
attach R1 SW1.p1 class=router
attach H1 SW1.p2 class=host
attach H2 SW1.p3 class=host
run 0.5
"""
    sc = parse_scenario(text)
    engine = build_engine(sc)
    metrics = engine.execute(sc.run_ms)
    # Both probes are due at 600 ms, after the end, so neither is queued.
    assert [r.time for r in records(engine, "ns-sent")] == [0, 0, 300, 300]
    assert queued(engine) == []
    assert metrics.in_flight == 4
    assert (metrics.emitted, metrics.delivered, metrics.dropped) == (10, 6, 0)
    assert metrics.emitted == metrics.delivered + metrics.dropped + metrics.in_flight


@pytest.mark.parametrize("name", all_scenarios())
def test_queued_receivers_match_a_queue_walk(name):
    # The counters are live in Engine.metrics, so conservation holds at every
    # stop, not only once execute() ends the run.
    sc = load(name)
    for latency in (0, 2):
        sc.link_latency_ms = latency
        engine = slaacsim.scenario.build_engine(sc)
        m = engine.metrics
        for stop in sorted({0, 1, 2, 500, 1000, 2003, sc.run_ms // 2, sc.run_ms}):
            engine.run_until(stop)
            assert m.in_flight == len(queued_deliveries(engine)), f"latency {latency} t={stop}"
            assert m.emitted == m.delivered + m.dropped + m.in_flight, f"latency {latency} t={stop}"


@pytest.mark.parametrize("name", all_scenarios())
def test_every_scenario_is_deterministic(name):
    _, first, _ = run_scenario(name)
    _, second, _ = run_scenario(name)
    assert first.trace_text() == second.trace_text()


RECORDED = json.loads((SCENARIO_DIR.parent / "perfbench" / "expected.json").read_text())["corpus"]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(RECORDED))
def test_corpus_matches_recorded_digests(name):
    # The benchmark's recorded digests, computed the same way, so a change to
    # any corpus trace or metrics byte fails here too.
    _, engine, metrics = run_scenario(name)
    digests = {"trace": sha256(engine.trace_text()), "metrics": sha256("\n".join(metrics.to_lines()))}
    assert digests == RECORDED[name]


@pytest.mark.parametrize("name", all_scenarios())
def test_every_scenario_conserves_messages(name):
    _, engine, metrics = run_scenario(name)
    assert metrics.emitted == metrics.delivered + metrics.dropped + metrics.in_flight
    assert metrics.in_flight == 0


class LosingEngine(Engine):
    """Serves each delivery without counting it as delivered or dropped."""

    def _handle_deliver(self, event, now):
        pass


def test_execute_raises_when_a_message_goes_uncounted():
    sc = load("baseline")
    with pytest.raises(SimInvariantError, match="message conservation broken: emitted="):
        build_on(sc, LosingEngine).execute(sc.run_ms)


@pytest.mark.parametrize("name", all_scenarios())
def test_trace_times_never_go_backwards(name):
    _, engine, _ = run_scenario(name)
    times = [r.time for r in map(TraceRecord._make, engine.trace_records)]
    assert times == sorted(times)


def test_trace_key_order_is_fixed_per_kind():
    # Every record of a kind has that kind's keys, in TRACE_KEYS order; a
    # record with the wrong number of values has no keys and renders no line.
    for name in all_scenarios():
        _, engine, _ = run_scenario(name)
        for record in map(TraceRecord._make, engine.trace_records):
            assert len(record.values) == len(TRACE_KEYS[record.kind]), f"{name} {record}"
            assert tuple(k for k, _ in record.attrs) == TRACE_KEYS[record.kind]
    short = TraceRecord(0, "H1", "dad-start", (Ipv6Address.parse("fe80::1"),))
    with pytest.raises(ValueError):
        short.attrs
    with pytest.raises(TypeError):
        short.line()


SOURCE_DIR = SCENARIO_DIR.parent / "src" / "slaacsim"
# The one trace record whose kind is a variable: the router list update in
# host.receive_ra.
VARIABLE_KINDS = ("router-added", "router-refreshed")


def _literal_behind(expr, bindings, where):
    """The one tuple literal that the name, subscript or attribute ``expr``
    holds, found by following every assignment to it in the file: to a tuple
    literal, or to another name, subscript or attribute that holds one."""
    literals, todo, seen = set(), [ast.unparse(expr)], set()
    while todo:
        text = todo.pop()
        if text in seen:
            continue
        seen.add(text)
        assert text in bindings, where
        for value in bindings[text]:
            if isinstance(value, ast.Tuple):
                literals.add(value)
            else:
                assert isinstance(value, (ast.Name, ast.Subscript, ast.Attribute)), where
                todo.append(ast.unparse(value))
    assert len(literals) == 1, where
    return literals.pop()


def _record_sites(path):
    """(where, kind expression, value expressions) for each Engine.trace call
    and each (time, node, kind, values) record literal in one source file. A
    literal's values may be a name, subscript or attribute that holds one
    tuple literal, such as a tuple shared by every receiver of a delivery."""
    tree = ast.parse(path.read_text())
    bindings = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                bindings.setdefault(ast.unparse(target), []).append(node.value)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr == "trace":
                where = f"{path.name}:{node.lineno}"
                assert not node.keywords and not any(
                    isinstance(a, ast.Starred) for a in node.args
                ), where
                yield where, node.args[1], node.args[2:]
        elif isinstance(node, ast.Tuple) and len(node.elts) == 4:
            where = f"{path.name}:{node.lineno}"
            kind, values = node.elts[2:]
            is_record = (
                isinstance(kind, ast.Constant) and isinstance(kind.value, str)
                and not isinstance(values, ast.Constant)
            ) or (path.name, ast.unparse(kind)) == ("host.py", "kind")
            if not is_record:
                continue
            if isinstance(values, (ast.Name, ast.Subscript, ast.Attribute)):
                values = _literal_behind(values, bindings, where)
            assert isinstance(values, ast.Tuple), where
            yield where, kind, values.elts


def test_every_trace_call_passes_its_kinds_values():
    # Engine.trace calls make most records; the hot paths append record
    # literals themselves. Each must give its kind one value per key.
    seen = set()
    for path in sorted(SOURCE_DIR.glob("*.py")):
        for where, kind, values in _record_sites(path):
            assert not any(isinstance(v, ast.Starred) for v in values), where
            if isinstance(kind, ast.Constant):
                kinds = (kind.value,)
            else:
                assert (path.name, ast.unparse(kind)) == ("host.py", "kind"), where
                kinds = VARIABLE_KINDS
            for kind in kinds:
                assert kind in TRACE_KEYS, where
                assert len(values) == len(TRACE_KEYS[kind]), where
            seen.update(kinds)
    assert seen == set(TRACE_KEYS)


def test_record_sites_reach_the_records_an_ra_delivery_appends():
    # host.receive_ra appends these records itself, each with a values tuple
    # made once per delivery or a literal; the check above must see them.
    kinds = {ast.unparse(kind) for _, kind, _ in _record_sites(SOURCE_DIR / "host.py")}
    assert {"'ra-received'", "kind", "'addr-lifetime'"} <= kinds


def test_record_sites_follow_a_shared_tuple_to_its_one_literal(tmp_path):
    source = tmp_path / "host.py"
    record = "records.append((now, node, 'router-added', values))\n"
    source.write_text(
        "values = shared[1]\n"
        "if values is None:\n"
        "    values = shared[1] = (src, pref, expires)\n" + record
    )
    [(_, _, values)] = _record_sites(source)
    assert [ast.unparse(v) for v in values] == ["src", "pref", "expires"]
    # Unbound, bound to a call, or bound to two literals: no one literal to check.
    for binding in ("", "values = shared()\n", "values = (a,)\nvalues = (a, b)\n"):
        source.write_text(binding + record)
        with pytest.raises(AssertionError):
            list(_record_sites(source))


def test_trace_line_names_each_key_of_its_kind():
    record = TraceRecord(5, "R1", "ra-sent", (A1_IP, 0, RouterPreference.HIGH, AdvertisedPrefixes()))
    assert record.line() == "t=5 node=R1 kind=ra-sent src=fe80::66 lifetime=0 pref=high prefixes=-"
    assert record.attrs == (("src", "fe80::66"), ("lifetime", "0"), ("pref", "high"), ("prefixes", "-"))


def test_readme_lists_each_trace_kind_and_its_keys():
    readme = (SCENARIO_DIR.parent / "README.md").read_text()
    section = readme.split("## Trace and metrics formats")[1].split("\n## ")[0]
    rows = re.findall(r"^\| `([a-z-]+)` \| `([a-z_ ]+)`", section, re.MULTILINE)
    assert {kind: tuple(keys.split()) for kind, keys in rows} == TRACE_KEYS
    assert len(rows) == len(TRACE_KEYS)


def _is_immutable_trace_value(value) -> bool:
    if isinstance(value, AdvertisedPrefixes):
        # PrefixInfo must stay a frozen dataclass of immutable fields.
        return all(isinstance(p, PrefixInfo) and p.__dataclass_params__.frozen for p in value)
    return isinstance(value, (int, str, enum.Enum, Ipv6Address, ipaddress.IPv4Address, Prefix))


def test_trace_values_are_immutable_and_render_stably():
    # Records keep the values given to trace() and format them when read, so
    # a mutable value would let the text change after the event. trace_text
    # renders each distinct values tuple of a kind once, so the tuple must
    # hash, and two values in one slot that compare equal must be of one type
    # (an Ipv6Address equal to an int would take the int's text). The text
    # must be each record's line in turn, also on the two generated links,
    # where thousands of records share one time and each kind's memo is hot.
    texts = {name: scenario_path(name).read_text() for name in all_scenarios()}
    texts["longrun-like"] = link_text(10, guard=True, run_s=7200)
    texts["fanout-like"] = link_text(100, guard=False, run_s=60)
    for name, text in texts.items():
        sc = parse_scenario(text)
        engine = build_engine(sc)
        engine.execute(sc.run_ms)
        rendered = engine.trace_text()
        assert engine.trace_text() == rendered, name
        end = 0
        slot_types = {}
        for record in map(TraceRecord._make, engine.trace_records):
            hash(record.values)
            for slot, (key, value) in enumerate(zip(TRACE_KEYS[record.kind], record.values)):
                assert _is_immutable_trace_value(value), f"{name} {record.kind} {key}={value!r}"
                seen = slot_types.setdefault((record.kind, slot), {})
                first = seen.setdefault(value, type(value))
                assert first is type(value), f"{name} {record.kind} {key}={value!r}"
            line = record.line() + "\n"
            assert rendered.startswith(line, end), f"{name} {record}"
            end += len(line)
        assert end == len(rendered), name
        del sc, engine, rendered


def test_advertised_prefixes_admit_only_frozen_prefix_infos():
    info = PrefixInfo(Prefix.parse("2001:db8::/64"), 3600, 3600)
    assert _is_immutable_trace_value(AdvertisedPrefixes((info,)))
    assert _is_immutable_trace_value(AdvertisedPrefixes())
    assert not _is_immutable_trace_value(AdvertisedPrefixes(([info],)))
    assert not _is_immutable_trace_value(AdvertisedPrefixes((Prefix.parse("2001:db8::/64"),)))


def test_advertised_prefixes_render_as_before():
    infos = (
        PrefixInfo(Prefix.parse("2001:db8:1::/64"), 3600, 3600),
        PrefixInfo(Prefix.parse("2001:db8:2::/48"), 60, 0),
    )
    assert str(AdvertisedPrefixes(infos)) == "2001:db8:1::/64,2001:db8:2::/48"
    assert str(AdvertisedPrefixes()) == "-"


def test_trace_records_are_immutable():
    _, engine, _ = run_scenario("baseline")
    record = TraceRecord._make(engine.trace_records[0])
    with pytest.raises(AttributeError):
        record.kind = "other"
    with pytest.raises(TypeError):
        record[2] = "other"
    with pytest.raises(AttributeError):
        AdvertisedPrefixes().extra = 1


@pytest.mark.parametrize("name", all_scenarios())
def test_records_and_queue_entries_are_bare_tuples(name, monkeypatch):
    # Nothing on the event path builds an object per record or per timer: a
    # record is (time, node, kind, values), a bucket entry (node id, timer)
    # for a timer and (None, action) for anything else, and a due time a
    # plain int. Every bucket is read as its time is popped, and the ones
    # left at the end of the run from the queue.
    pushed, served = [], []

    def heappush(times, at):
        pushed.append(at)
        real_heappush(times, at)

    def heappop(times):
        at = real_heappop(times)
        served.extend(engine._buckets[at])
        return at

    real_heappush, real_heappop = heapq.heappush, heapq.heappop
    monkeypatch.setattr(heapq, "heappush", heappush)
    monkeypatch.setattr(heapq, "heappop", heappop)
    sc = load(name)
    engine = build_engine(sc)
    engine.execute(sc.run_ms)
    booked = served + [(node_id, action) for _, node_id, action in queued(engine)]
    assert booked and all(type(e) is tuple and len(e) == 2 for e in booked)
    for node_id, action in booked:
        if node_id is None:
            assert isinstance(action, (Deliver, AttackDirective, MeasureDirective, ToggleDirective))
        else:
            assert node_id in engine.nodes and isinstance(action, (Timer, Ipv6Address))
    assert any(e[0] is not None for e in booked) and any(e[0] is None for e in booked)
    assert pushed and all(type(at) is int for at in pushed)
    assert all(type(at) is int for at in engine._times)
    assert all(type(r) is tuple and len(r) == 4 for r in engine.trace_records)


def test_probe_from_a_source_not_assigned_is_an_invariant_violation(monkeypatch):
    # select_global_source offers only assigned addresses, and the probe
    # checks that the address it sends from still is one.
    _, engine, _ = run_scenario("baseline")
    h1 = engine.nodes["H1"]
    [entry] = [e for e in h1.addresses.values() if e.prefix is not None]
    entry.state = AddressState.TENTATIVE
    monkeypatch.setattr(h1, "select_global_source", lambda now: entry)
    with pytest.raises(SimInvariantError, match=f"^H1 sourced data from non-assigned {entry.address}$"):
        engine.measure(engine.now)


def test_a_measure_selects_each_hosts_default_router_once():
    # The path and the default_router metric read one selection per host.
    for path in sorted(SCENARIO_DIR.glob("*.txt")):
        with counting(Host, "select_default_router") as selections, counting(Engine, "measure") as measures:
            _, engine, _ = run_scenario(path.stem)
        hosts = sum(isinstance(node, Host) for node in engine.nodes.values())
        assert hosts and measures.call_count, path.name
        assert selections.call_count == hosts * measures.call_count, path.name


def test_jitter_scenarios_depend_on_seed():
    _, base_a, _ = run_scenario("jitter_demo")
    _, base_b, _ = run_scenario("jitter_demo")
    assert base_a.trace_text() == base_b.trace_text()
    _, other, _ = run_scenario("jitter_demo", seed=7)
    assert base_a.trace_text() != other.trace_text()


def test_duplicate_node_id_rejected(engine):
    attach(engine, eui64_host("H1", MacAddress.parse("00:1a:2b:3c:4d:5e")))
    # A second H1, and the sink's id, which data-delivered records name.
    for node_id in ("H1", "ext"):
        with pytest.raises(ValueError, match=f"duplicate node id '{node_id}'"):
            attach(engine, eui64_host(node_id, MacAddress.parse("00:1a:2b:3c:4d:5f")))
    assert list(engine.nodes) == ["H1"]


@pytest.mark.parametrize(
    "step,message",
    [
        (AttackDirective("H1", AttackMode.KILL_ROUTER), "H1 is not an attacker"),
        (ToggleDirective("A1", False), "A1 is not a router"),
    ],
    ids=["attack-non-attacker", "toggle-non-router"],
)
def test_script_step_aimed_at_the_wrong_node_kind_raises(step, message):
    # Validation rejects both in a scenario; the engine still refuses them.
    engine = three_node_link(guard_attacker=False)
    engine.schedule(0, step)
    with pytest.raises(SimInvariantError, match=message):
        engine.run_until(0)
    assert engine.trace_records == []


def test_disabled_host_emits_no_nd_messages():
    _, engine, _ = run_scenario("attack_dualstack_v6off")
    nd_kinds = ("ns-sent", "na-sent", "rs-sent", "ra-sent")
    named = map(TraceRecord._make, engine.trace_records)
    offenders = [r for r in named if r.kind in nd_kinds and r.node == "H1"]
    assert offenders == []


def test_dad_uniqueness_across_declaration_orders():
    # Exhaustive over both declaration orders of the two-host conflict: the
    # lexicographically smaller node id wins either way, and at most one host
    # ends up holding the address.
    from slaacsim.scenario import build_engine, parse_scenario

    base = SCENARIO_DIR.joinpath("phase1_dup.txt").read_text()
    flipped = base.replace(
        "node host H1 mac=00:1a:2b:3c:4d:5e\nnode host H2 mac=00:1a:2b:3c:4d:5e",
        "node host H2 mac=00:1a:2b:3c:4d:5e\nnode host H1 mac=00:1a:2b:3c:4d:5e",
    )
    assert flipped != base
    for text in (base, flipped):
        sc = parse_scenario(text)
        engine = build_engine(sc)
        engine.execute(sc.run_ms)
        assigned = [r.node for r in records(engine, "addr-assigned")]
        failed = [r.node for r in records(engine, "dad-failed")]
        assert assigned == ["H1"] and failed == ["H2"]


def test_script_can_disable_and_reenable_routers():
    from slaacsim.scenario import build_engine, parse_scenario

    text = """\
switch SW1 ports=2
node router R1 mac=00:00:5e:00:53:01 prefix=2001:db8:1::/64 interval=10
node host H1 mac=00:1a:2b:3c:4d:5e
attach R1 SW1.p1 class=router
attach H1 SW1.p2 class=host
at 5 disable R1
at 25 enable R1
run 32
"""
    sc = parse_scenario(text)
    engine = build_engine(sc)
    engine.execute(sc.run_ms)
    periodic = [r.time for r in records(engine, "ra-sent")]
    # t=0 runs, t=1.0.. solicited, 10 and 20 suppressed, 30 resumes
    assert 10_000 not in periodic and 20_000 not in periodic
    assert 0 in periodic and 30_000 in periodic
    toggles = [attrs(r)["enabled"] for r in records(engine, "router-toggled")]
    assert toggles == ["off", "on"]


def test_a_step_at_zero_is_served_after_the_nodes_startup_work():
    # Every node's t=0 work is booked before any script step, so R2 has
    # advertised once when `at 0 disable R2` turns it off, and H1 forms
    # R2's prefix from that advertisement.
    text = """\
switch SW1 ports=3
node router R1 mac=00:00:5e:00:53:01 prefix=2001:db8:1::/64 interval=10
node router R2 mac=00:00:5e:00:53:02 prefix=2001:db8:2::/64 interval=10
node host H1 mac=00:1a:2b:3c:4d:5e
attach R1 SW1.p1 class=router
attach R2 SW1.p2 class=router
attach H1 SW1.p3 class=host
at 0 disable R2
at 5 enable R2
run 7
"""
    sc = parse_scenario(text)
    engine = build_engine(sc)
    engine.execute(sc.run_ms)
    at_zero = [(r.node, r.kind) for r in map(TraceRecord._make, engine.trace_records) if r.time == 0]
    assert at_zero.index(("R2", "ra-sent")) < at_zero.index(("R2", "router-toggled"))
    formed = [(r.time, attrs(r)["addr"]) for r in records(engine, "dad-start") if r.node == "H1"]
    assert (1, "2001:db8:2:0:21a:2bff:fe3c:4d5e") in formed


def test_tentative_address_never_sources_data():
    # A host whose only global address is still tentative resolves nothing,
    # so no data leaves it.
    from slaacsim.host import AddressState

    engine = three_node_link(guard_attacker=False)
    host = engine.nodes["H1"]
    ra = spoofable_ra()
    receive_ra(engine, ra, "R1", (host,), 0)
    assert host.addresses == {} or all(
        e.state is not AddressState.ASSIGNED for e in host.addresses.values()
    )
    engine.measure(0)
    assert records(engine, "data-sent") == []
    assert attrs(records(engine, "path-resolved")[0])["outcome"] == "unreachable"


def test_attacker_traffic_in_send_run_never_verifies():
    # Exhaustive inspection of everything the attacker puts on the wire in
    # the signed-advertisement scenario: none of it authenticates.
    from slaacsim.defense import verify_ra
    from slaacsim.messages import RouterAdvertisement
    from slaacsim.scenario import build_engine, parse_scenario

    sc = parse_scenario(SCENARIO_DIR.joinpath("attack_mitm_send.txt").read_text())
    engine = build_engine(sc)
    wire = []
    original = engine.broadcast

    def recording_broadcast(src_id, msg, now):
        wire.append((src_id, msg))
        original(src_id, msg, now)

    engine.broadcast = recording_broadcast
    engine.execute(sc.run_ms)
    attacker_ras = [m for (src, m) in wire if src == "A1" and isinstance(m, RouterAdvertisement)]
    assert attacker_ras
    assert all(not verify_ra(ra, engine.trusted_keys) for ra in attacker_ras)
    legit_ras = [m for (src, m) in wire if src == "R1" and isinstance(m, RouterAdvertisement)]
    assert legit_ras and all(verify_ra(ra, engine.trusted_keys) for ra in legit_ras)


def test_begin_autoconf_keeps_single_link_local(engine):
    host = eui64_host("H1", MacAddress.parse("00:1a:2b:3c:4d:5e"))
    attach(engine, host)
    host.begin_autoconf(engine, 0)
    host.begin_autoconf(engine, 5)
    assert len([e for e in host.addresses.values() if e.prefix is None]) == 1


def test_ra_guard_completeness_when_all_host_ports_guarded():
    # With every host-facing port guarded, no RA entering on a host-facing
    # port is delivered to anyone, while router-port RAs flow untouched.
    from slaacsim.scenario import build_engine, parse_scenario

    text = SCENARIO_DIR.joinpath("attack_mitm_raguard.txt").read_text()
    text = text.replace("policy SW1.p3 ra-guard", "policy SW1.p2 ra-guard\npolicy SW1.p3 ra-guard")
    sc = parse_scenario(text)
    engine = build_engine(sc)
    engine.execute(sc.run_ms)
    legit_src = str(engine.nodes["R1"].ra.src_ip)
    received = {attrs(r)["src"] for r in records(engine, "ra-received")}
    assert received == {legit_src}
    assert all(attrs(r)["port"] == "p3" for r in records(engine, "ra-dropped"))


def test_acl_soundness_every_delivered_ra_is_allow_listed():
    sc = parse_scenario(SCENARIO_DIR.joinpath("attack_mitm_acl.txt").read_text())
    # The engine hands receive_ra each RA delivery that passed its port.
    with mock.patch.object(engine_module, "receive_ra", wraps=engine_module.receive_ra) as delivered:
        build_engine(sc).execute(sc.run_ms)
    delivered_src_macs = [call.args[1].src_mac for call in delivered.call_args_list]
    allowed = {MacAddress.parse("00:00:5e:00:53:01")}
    assert delivered_src_macs and set(delivered_src_macs) <= allowed


# Appended to baseline.txt: an attacker that is never armed, one set only
# to passive, and one armed only after a measure at 0.5 s finds H1 without
# a path (autoconfiguration is still running). None may raise an attack flag.
UNARMED = """\
node attacker A1 mac=00:00:5e:00:53:66
attach A1 SW1.p3 class=host
at 0.5 measure
run 4
"""
DISARMED = """\
node attacker A1 mac=00:00:5e:00:53:66 persona-prefix=2001:db8:bad::/64 persona-preference=high
attach A1 SW1.p3 class=host
at 0.5 measure
at 5 attack A1 blackhole
at 6 attack A1 passive
at 30 measure
run 30
"""


@pytest.mark.parametrize(
    "extra",
    [UNARMED, UNARMED.replace("at 0.5", "at 0.2 attack A1 passive\nat 0.5"), DISARMED],
    ids=["never-armed", "passive-only", "measured-before-arming"],
)
def test_attack_flags_count_only_measures_after_arming(extra):
    from slaacsim.scenario import build_engine, parse_scenario

    text = SCENARIO_DIR.joinpath("baseline.txt").read_text().replace("run 4\n", extra)
    sc = parse_scenario(text)
    engine = build_engine(sc)
    metrics = engine.execute(sc.run_ms)
    first = records(engine, "path-resolved")[0]
    assert (first.time, first.node) == (500, "H1")
    assert attrs(first)["outcome"] == "unreachable"  # the 0.5 s probe finds no path
    assert (metrics.dos_success, metrics.mitm_success, metrics.dualstack_success) == (
        False, False, False,
    )


def test_flags_hold_from_any_measure_and_hosts_from_the_last():
    # Under the ACL, the opening kill replay empties H1's router list at 7 s;
    # by 12 s R1 has re-advertised and H1 uses it again.
    from slaacsim.scenario import build_engine, parse_scenario

    text = SCENARIO_DIR.joinpath("attack_mitm_acl.txt").read_text()
    text = text.replace("at 12 measure", "at 7 measure\nat 12 measure")
    sc = parse_scenario(text)
    engine = build_engine(sc)
    metrics = engine.execute(sc.run_ms)
    assert metrics is engine.metrics
    assert [r.time for r in records(engine, "path-resolved")] == [7000, 12000]
    texts = metrics.texts()
    assert (texts["dos_success"], texts["mitm_success"]) == ("true", "false")
    assert texts["H1.default_router"] == "R1"


def test_hostless_run_measures_nothing():
    # execute() measures again at the end when no measure recorded a host;
    # with no host that measure, like the scripted one, records and traces
    # nothing, even after an attack is armed.
    from slaacsim.scenario import build_engine, parse_scenario

    text = """\
switch SW1 ports=2
node router R1 mac=00:00:5e:00:53:01 prefix=2001:db8:1::/64
node attacker A1 mac=00:00:5e:00:53:66 persona-prefix=2001:db8:bad::/64
attach R1 SW1.p1 class=router
attach A1 SW1.p2 class=host
at 0.5 attack A1 blackhole
at 1 measure
run 2
"""
    sc = parse_scenario(text)
    engine = build_engine(sc)
    metrics = engine.metrics  # the run's one record, made with the engine
    assert engine.execute(sc.run_ms) is metrics
    for kind in ("path-resolved", "data-sent", "data-delivered", "blackhole-drop"):
        assert records(engine, kind) == [], kind
    assert metrics.hosts == {}
    assert (metrics.dos_success, metrics.mitm_success, metrics.dualstack_success) == (
        False, False, False,
    )
    assert not any(line.startswith("host=") for line in metrics.to_lines())


def test_measure_at_the_run_end_is_the_only_one():
    from slaacsim.scenario import build_engine, parse_scenario

    sc = parse_scenario(TWO_ROUTERS.replace("at 3 measure", "at 4 measure"))
    engine = build_engine(sc)
    engine.execute(sc.run_ms)
    resolved = records(engine, "path-resolved")
    assert [(r.time, r.node) for r in resolved] == [(4000, "H1"), (4000, "H2")]


# -- the cyclic collector -----------------------------------------------------------

def test_a_run_makes_no_reference_cycles():
    # Engine.execute pauses the cyclic collector for the event loop, which
    # is free only while a run leaves nothing for it to find: every object a
    # run makes must be freed by reference counting alone.
    texts = [scenario_path(name).read_text() for name in all_scenarios()]
    texts += [link_text(100, guard=False, run_s=60), link_text(10, guard=True, run_s=7200)]
    gc.collect()
    collecting = gc.isenabled()
    gc.disable()
    try:
        for text in texts:
            sc = parse_scenario(text)
            engine = build_engine(sc)
            metrics = engine.execute(sc.run_ms)
            engine.trace_text()
            assert metrics.to_lines() and evaluate_expects(sc, metrics) == []
            del sc, engine, metrics
        assert gc.collect() == 0
    finally:
        if collecting:
            gc.enable()


KILL_BEFORE_CAPTURE = scenario_path("attack_kill").read_text().replace(
    "at 5 attack", "at 0 attack"
)


@pytest.mark.parametrize("collecting", [True, False])
def test_execute_leaves_the_collector_as_it_found_it(collecting):
    finishes = build_engine(load("attack_kill"))
    raises = build_engine(parse_scenario(KILL_BEFORE_CAPTURE))
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        finishes.execute(9000)
        assert gc.isenabled() is collecting
        with pytest.raises(ScenarioError, match="holds no captured RA"):
            raises.execute(9000)
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()


def collections() -> int:
    return sum(generation["collections"] for generation in gc.get_stats())


def in_generation(obj, generation: int) -> bool:
    return any(o is obj for o in gc.get_objects(generation=generation))


@pytest.fixture
def collector_on():
    """The collector on, with an empty young generation; restored after."""
    was = gc.isenabled()
    gc.enable()
    gc.collect()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


LONG_LINK = link_text(10, guard=True, run_s=7200)


@pytest.mark.skipif(
    gc.get_freeze_count() > 0,
    reason="the interpreter starts with frozen objects (CPython 3.12 does), which execute"
    " cannot tell from a caller's, so it keeps the deferred collection",
)
def test_execute_hands_a_deferred_collection_back_without_running_it(collector_on):
    # The paused loop leaves far more new objects than the young threshold;
    # execute moves them, and everything else alive, to the oldest
    # generation instead of collecting them once the collector is back on.
    sc = parse_scenario(LONG_LINK)
    engine = build_engine(sc)
    young = []
    before = collections()
    engine.execute(sc.run_ms)
    assert collections() == before
    assert gc.isenabled()
    assert not in_generation(young, 0) and in_generation(young, 2)


def test_execute_moves_nothing_after_a_small_run(collector_on):
    sc = load("attack_kill")
    engine = build_engine(sc)
    young = []
    engine.execute(sc.run_ms)
    assert in_generation(young, 0)


def test_execute_moves_nothing_with_the_collector_off():
    sc = parse_scenario(LONG_LINK)
    engine = build_engine(sc)
    was = gc.isenabled()
    gc.disable()
    try:
        young = []
        engine.execute(sc.run_ms)
        assert not gc.isenabled()
        assert gc.get_count()[0] > gc.get_threshold()[0]
        assert in_generation(young, 0)
    finally:
        (gc.enable if was else gc.disable)()


def test_execute_keeps_a_callers_frozen_objects_frozen(collector_on):
    # Unfreezing would hand the caller's frozen objects back to the
    # collector, so with any frozen, the deferred collection runs as before.
    kept = []
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        sc = parse_scenario(LONG_LINK)
        engine = build_engine(sc)
        before = collections()
        engine.execute(sc.run_ms)
        assert gc.get_freeze_count() == frozen > 0
        assert not any(o is kept for o in gc.get_objects())
        assert collections() > before
    finally:
        gc.unfreeze()
