"""Event ordering, delivery and filtering, determinism, conservation."""

import enum
from collections import defaultdict

import pytest

from conftest import attrs, records, run_scenario, SCENARIO_DIR

from slaacsim.addressing import Ipv6Address, MacAddress, Prefix
from slaacsim.attacker import Attacker
from slaacsim.defense import PortClass
from slaacsim.engine import Engine, SimInvariantError, TimerFire
from slaacsim.host import Host
from slaacsim.messages import RouterAdvertisement, RouterPreference, Timer

A1_MAC = MacAddress.parse("00:00:5e:00:53:66")
A1_IP = Ipv6Address.parse("fe80::66")


def all_scenarios():
    return sorted(p.stem for p in SCENARIO_DIR.glob("*.txt"))


def test_empty_queue_returns_immediately(engine):
    engine.run_until(10_000)
    assert engine.trace_records == [] and engine.now == 10_000


def test_same_time_events_run_in_schedule_order(engine):
    order = []

    class Probe:
        def __init__(self, name):
            self.node_id = name

        def on_timer(self, ctx, timer, now):
            order.append(self.node_id)

    for name in ("N1", "N2", "N3"):
        engine.add_node(Probe(name))
    engine.schedule(5, TimerFire("N2", Timer.RA))
    engine.schedule(5, TimerFire("N1", Timer.RA))
    engine.schedule(5, TimerFire("N3", Timer.RA))
    engine.run_until(5)
    assert order == ["N2", "N1", "N3"]


def test_scheduling_into_the_past_raises(engine):
    engine.now = 100
    with pytest.raises(SimInvariantError):
        engine.schedule(99, TimerFire("N1", Timer.RA))


def spoofable_ra() -> RouterAdvertisement:
    return RouterAdvertisement(A1_MAC, A1_IP, 1800, RouterPreference.HIGH)


def three_node_link(guard_attacker: bool) -> Engine:
    engine = Engine()
    engine.add_switch("SW1", 3)
    engine.add_node(Host("H1", MacAddress.parse("00:1a:2b:3c:4d:5e")), "p1", PortClass.HOST_FACING)
    engine.add_node(Host("H2", MacAddress.parse("00:1a:2b:3c:4d:5f")), "p2", PortClass.HOST_FACING)
    engine.add_node(Attacker("A1", A1_MAC, A1_IP), "p3", PortClass.HOST_FACING)
    if guard_attacker:
        engine.ports["p3"].policy.ra_guard = True
    return engine


def test_broadcast_reaches_every_other_node():
    engine = three_node_link(guard_attacker=False)
    engine.broadcast("A1", spoofable_ra(), 0)
    engine.run_until(10)
    assert engine.emitted == 2 and engine.delivered == 2 and engine.dropped == 0
    assert len(records(engine, "ra-received")) == 2


def test_guarded_broadcast_yields_drop_records_per_recipient():
    engine = three_node_link(guard_attacker=True)
    engine.broadcast("A1", spoofable_ra(), 0)
    engine.run_until(10)
    drops = records(engine, "ra-dropped")
    assert engine.delivered == 0 and engine.dropped == 2
    assert len(drops) == 2
    assert {attrs(d)["dst"] for d in drops} == {"H1", "H2"}
    assert all(attrs(d)["reason"] == "ra-guard" and attrs(d)["port"] == "p3" for d in drops)
    assert all(d.node == "SW1" for d in drops)


@pytest.mark.parametrize("name", all_scenarios())
def test_every_scenario_is_deterministic(name):
    _, first, _ = run_scenario(name)
    _, second, _ = run_scenario(name)
    assert first.trace_text() == second.trace_text()


@pytest.mark.parametrize("name", all_scenarios())
def test_every_scenario_conserves_messages(name):
    _, engine, metrics = run_scenario(name)
    assert metrics.emitted == metrics.delivered + metrics.dropped + metrics.in_flight
    assert metrics.in_flight == 0


@pytest.mark.parametrize("name", all_scenarios())
def test_trace_times_never_go_backwards(name):
    _, engine, _ = run_scenario(name)
    times = [r.time for r in engine.trace_records]
    assert times == sorted(times)


def test_trace_key_order_is_fixed_per_kind():
    per_kind = defaultdict(set)
    for name in all_scenarios():
        _, engine, _ = run_scenario(name)
        for record in engine.trace_records:
            per_kind[record.kind].add(tuple(k for k, _ in record.attrs))
    for kind, orders in per_kind.items():
        assert len(orders) == 1, f"{kind} has varying key orders: {orders}"


def test_trace_values_are_immutable_and_render_stably():
    # Records keep the values given to trace() and format them when read, so
    # a mutable value would let the text change after the event.
    immutable = (int, str, enum.Enum, Ipv6Address, Prefix)
    for name in all_scenarios():
        _, engine, _ = run_scenario(name)
        for record in engine.trace_records:
            for key, value in record.values:
                assert isinstance(value, immutable), f"{name} {record.kind} {key}={value!r}"
        assert engine.trace_text() == engine.trace_text()


def test_jitter_scenarios_depend_on_seed():
    _, base_a, _ = run_scenario("jitter_demo")
    _, base_b, _ = run_scenario("jitter_demo")
    assert base_a.trace_text() == base_b.trace_text()
    _, other, _ = run_scenario("jitter_demo", seed=7)
    assert base_a.trace_text() != other.trace_text()


def test_duplicate_node_id_rejected(engine):
    engine.add_node(Host("H1", MacAddress.parse("00:1a:2b:3c:4d:5e")))
    with pytest.raises(ValueError):
        engine.add_node(Host("H1", MacAddress.parse("00:1a:2b:3c:4d:5f")))


def test_disabled_host_emits_no_nd_messages():
    _, engine, _ = run_scenario("attack_dualstack_v6off")
    nd_kinds = ("ns-sent", "na-sent", "rs-sent", "ra-sent")
    offenders = [r for r in engine.trace_records if r.kind in nd_kinds and r.node == "H1"]
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


def test_tentative_address_never_sources_data():
    # A host whose only global address is still tentative resolves nothing,
    # so no data leaves it.
    from slaacsim.host import AddressState

    engine = three_node_link(guard_attacker=False)
    host = engine.nodes["H1"]
    ra = spoofable_ra()
    host.process_ra(engine, ra, 0)
    assert host.addresses == [] or all(
        e.state is not AddressState.ASSIGNED for e in host.addresses
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
    assert all(not verify_ra(ra, engine.trust_registry) for ra in attacker_ras)
    legit_ras = [m for (src, m) in wire if src == "R1" and isinstance(m, RouterAdvertisement)]
    assert legit_ras and all(verify_ra(ra, engine.trust_registry) for ra in legit_ras)


def test_begin_autoconf_keeps_single_link_local(engine):
    host = Host("H1", MacAddress.parse("00:1a:2b:3c:4d:5e"))
    engine.add_node(host)
    host.begin_autoconf(engine, 0)
    host.begin_autoconf(engine, 5)
    assert len([e for e in host.addresses if e.origin == "link-local"]) == 1


def test_ra_guard_completeness_when_all_host_ports_guarded():
    # With every host-facing port guarded, no RA entering on a host-facing
    # port is delivered to anyone, while router-port RAs flow untouched.
    from slaacsim.scenario import build_engine, parse_scenario

    text = SCENARIO_DIR.joinpath("attack_mitm_raguard.txt").read_text()
    text = text.replace("policy SW1.p3 ra-guard", "policy SW1.p2 ra-guard\npolicy SW1.p3 ra-guard")
    sc = parse_scenario(text)
    engine = build_engine(sc)
    engine.execute(sc.run_ms)
    legit_src = str(engine.nodes["R1"].config.link_local)
    received = {attrs(r)["src"] for r in records(engine, "ra-received")}
    assert received == {legit_src}
    assert all(attrs(r)["port"] == "p3" for r in records(engine, "ra-dropped"))


def test_acl_soundness_every_delivered_ra_is_allow_listed():
    from slaacsim.messages import RouterAdvertisement
    from slaacsim.scenario import build_engine, parse_scenario

    sc = parse_scenario(SCENARIO_DIR.joinpath("attack_mitm_acl.txt").read_text())
    engine = build_engine(sc)
    delivered_src_macs = []
    original = engine._handle_deliver

    def recording(event, now):
        before = engine.delivered
        original(event, now)
        if engine.delivered > before and isinstance(event.msg, RouterAdvertisement):
            delivered_src_macs.append(event.msg.src_mac)

    engine._handle_deliver = recording
    engine.execute(sc.run_ms)
    allowed = {MacAddress.parse("00:00:5e:00:53:01")}
    assert delivered_src_macs and set(delivered_src_macs) <= allowed
