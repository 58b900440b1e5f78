"""Event ordering, delivery and filtering, determinism, conservation."""

import ast
import enum
import hashlib
import heapq
import json
import re
from collections import Counter

import pytest

from conftest import attrs, load, queued_deliveries, records, run_scenario, SCENARIO_DIR

import slaacsim.scenario

from slaacsim.addressing import Ipv4Address, Ipv6Address, MacAddress, Prefix
from slaacsim.attacker import Attacker
from slaacsim.defense import PortClass, SwitchPort, filter_ingress
from slaacsim.engine import (
    TRACE_KEYS,
    AdvertisedPrefixes,
    AttackDirective,
    Deliver,
    Engine,
    MeasureDirective,
    SimInvariantError,
    ToggleDirective,
    TraceRecord,
)
from slaacsim.host import Host
from slaacsim.messages import (
    NeighborAdvertisement,
    NeighborSolicitation,
    PrefixInfo,
    RouterAdvertisement,
    RouterPreference,
    RouterSolicitation,
    Timer,
)
from slaacsim.router import Router

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
        engine.add_node(Probe(name))
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
    assert engine._queue == []


def spoofable_ra() -> RouterAdvertisement:
    return RouterAdvertisement(A1_MAC, A1_IP, 1800, RouterPreference.HIGH)


def three_node_link(guard_attacker: bool) -> Engine:
    engine = Engine()
    engine.switch_id = "SW1"
    host_port = PortClass.HOST_FACING
    engine.add_node(Host("H1", MacAddress.parse("00:1a:2b:3c:4d:5e")), SwitchPort("p1", host_port))
    engine.add_node(Host("H2", MacAddress.parse("00:1a:2b:3c:4d:5f")), SwitchPort("p2", host_port))
    engine.add_node(Attacker("A1"), SwitchPort("p3", host_port, ra_guard=guard_attacker))
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


def test_broadcast_queues_one_entry_per_emission():
    engine = three_node_link(guard_attacker=False)
    engine.broadcast("A1", spoofable_ra(), 0)
    (entry,) = engine._queue
    assert entry[3].dsts == ("H1", "H2")
    lone = Engine()
    lone.add_node(Host("H1", MacAddress.parse("00:1a:2b:3c:4d:5e")))
    lone.broadcast("H1", spoofable_ra(), 0)
    assert lone._queue == [] and lone.emitted == 0


class PerReceiverEngine(Engine):
    """The schedule batching replaced: one single-receiver entry per
    receiver, each with its own seq."""

    def broadcast(self, src_id, msg, now):
        self._trace_emission(src_id, msg)
        port = self.node_port.get(src_id)
        for node_id in self.nodes:
            if node_id != src_id:
                self.emitted += 1
                self.schedule(now + self.link_latency_ms, Deliver(msg, src_id, port, (node_id,)))


def run_output(sc, engine_class, monkeypatch) -> str:
    monkeypatch.setattr(slaacsim.scenario, "Engine", engine_class)
    engine = slaacsim.scenario.build_engine(sc)
    metrics = engine.execute(sc.run_ms)
    return engine.trace_text() + "\n".join(metrics.to_lines())


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


def assert_same_output(name, reference, monkeypatch):
    """``reference`` gives Engine's trace and metrics on ``name`` at its own
    link latency and at 0 and 2 ms."""
    sc = slaacsim.scenario.parse_scenario(TWO_ROUTERS) if name == "two-routers" else load(name)
    for latency in sorted({sc.link_latency_ms, 0, 2}):
        sc.link_latency_ms = latency
        expected = run_output(sc, Engine, monkeypatch)
        assert run_output(sc, reference, monkeypatch) == expected, f"latency {latency}"


@pytest.mark.parametrize("name", all_scenarios() + ["two-routers"])
def test_batched_delivery_matches_per_receiver_entries(name, monkeypatch):
    # One entry per emission is exact only if no event can run between its
    # receivers and they are served in node order; latency 0 books replies
    # at the very time of the batch.
    assert_same_output(name, PerReceiverEngine, monkeypatch)


class EveryReceiverEngine(Engine):
    """The dispatch the per-kind one replaced: every receiver's on_message is
    called, whatever the message kind."""

    def _handle_deliver(self, event, now):
        msg, port = event.msg, event.port
        reason = None if port is None else filter_ingress(port, msg)
        for dst in event.dsts:
            if reason is not None:
                self.dropped += 1
                self.trace(self.switch_id, "ra-dropped", port.port_id, reason, msg.src_ip, dst)
                continue
            self.delivered += 1
            node = self.nodes[dst]
            if isinstance(node, Host) and isinstance(msg, RouterAdvertisement):
                self.trace(dst, "ra-received", msg.src_ip, msg.router_lifetime, msg.preference)
            node.on_message(self, msg, event.src, now)


@pytest.mark.parametrize("name", all_scenarios() + ["two-routers"])
def test_dispatch_by_kind_matches_calling_every_receiver(name, monkeypatch):
    # Exact only if every call the engine skips was a no-op.
    assert_same_output(name, EveryReceiverEngine, monkeypatch)


def test_each_node_hears_only_the_kinds_it_acts_on(monkeypatch):
    calls = Counter()

    def counting(cls):
        on_message = cls.on_message

        def counted(node, ctx, msg, sender_id, now):
            claimed = isinstance(msg, (NeighborSolicitation, NeighborAdvertisement)) and (
                node.node_id in ctx._claims.get(msg.target, ())
            )
            calls[cls.__name__, type(msg).__name__, claimed] += 1
            on_message(node, ctx, msg, sender_id, now)

        monkeypatch.setattr(cls, "on_message", counted)

    for cls in (Host, Router, Attacker):
        counting(cls)
    for name in all_scenarios():
        run_scenario(name)
    assert set(calls) == {
        ("Host", "RouterAdvertisement", False),
        ("Host", "NeighborSolicitation", True),
        ("Host", "NeighborAdvertisement", True),
        ("Attacker", "RouterAdvertisement", False),
        ("Router", "RouterSolicitation", False),
    }


@pytest.mark.parametrize("name", all_scenarios())
def test_every_host_address_is_claimed_by_its_host(name):
    _, engine, _ = run_scenario(name)
    for node in engine.nodes.values():
        if isinstance(node, Host):
            for entry in node.addresses:
                assert node.node_id in engine._claims[entry.address], f"{node.node_id} {entry}"


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
    pending = [(at, dst) for at, dst, _ in queued_deliveries(engine)]
    assert pending == [(600, "R1"), (600, "H2"), (600, "R1"), (600, "H1")]
    assert sum(isinstance(a, Deliver) for *_, a in engine._queue) == 2
    assert metrics.in_flight == 4
    assert (metrics.emitted, metrics.delivered, metrics.dropped) == (10, 6, 0)
    assert metrics.emitted == metrics.delivered + metrics.dropped + metrics.in_flight


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
# The one trace call whose kind is a variable: Host._update_router_list.
VARIABLE_KINDS = ("router-added", "router-refreshed")


def test_every_trace_call_passes_its_kinds_values():
    seen = set()
    for path in sorted(SOURCE_DIR.glob("*.py")):
        for call in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)):
                continue
            if call.func.attr != "trace":
                continue
            where = f"{path.name}:{call.lineno}"
            assert not call.keywords and not any(isinstance(a, ast.Starred) for a in call.args), where
            if isinstance(call.args[1], ast.Constant):
                kinds = (call.args[1].value,)
            else:
                assert (path.name, ast.unparse(call.args[1])) == ("host.py", "kind"), where
                kinds = VARIABLE_KINDS
            for kind in kinds:
                assert kind in TRACE_KEYS, where
                assert len(call.args) - 2 == len(TRACE_KEYS[kind]), where
            seen.update(kinds)
    assert seen == set(TRACE_KEYS)


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
    return isinstance(value, (int, str, enum.Enum, Ipv6Address, Ipv4Address, Prefix))


def test_trace_values_are_immutable_and_render_stably():
    # Records keep the values given to trace() and format them when read, so
    # a mutable value would let the text change after the event.
    for name in all_scenarios():
        _, engine, _ = run_scenario(name)
        for record in map(TraceRecord._make, engine.trace_records):
            for key, value in zip(TRACE_KEYS[record.kind], record.values):
                assert _is_immutable_trace_value(value), f"{name} {record.kind} {key}={value!r}"
        assert engine.trace_text() == engine.trace_text()
        lines = [TraceRecord._make(r).line() + "\n" for r in engine.trace_records]
        assert engine.trace_text() == "".join(lines), name


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
    # record is (time, node, kind, values), a queue entry (time, seq, node
    # id, timer) for a timer and (time, seq, None, action) for anything else.
    booked = []

    def heappush(queue, entry):
        booked.append(entry)
        real_heappush(queue, entry)

    real_heappush = heapq.heappush
    monkeypatch.setattr(heapq, "heappush", heappush)
    _, engine, _ = run_scenario(name)
    assert booked and all(type(e) is tuple and len(e) == 4 for e in booked)
    for _at, _seq, node_id, action in booked:
        if node_id is None:
            assert isinstance(action, (Deliver, AttackDirective, MeasureDirective, ToggleDirective))
        else:
            assert node_id in engine.nodes and isinstance(action, (Timer, Ipv6Address))
    assert any(e[2] is not None for e in booked) and any(e[2] is None for e in booked)
    assert all(type(r) is tuple and len(r) == 4 for r in engine.trace_records)


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
    assert all(not verify_ra(ra, engine.trusted_keys) for ra in attacker_ras)
    legit_ras = [m for (src, m) in wire if src == "R1" and isinstance(m, RouterAdvertisement)]
    assert legit_ras and all(verify_ra(ra, engine.trusted_keys) for ra in legit_ras)


def test_begin_autoconf_keeps_single_link_local(engine):
    host = Host("H1", MacAddress.parse("00:1a:2b:3c:4d:5e"))
    engine.add_node(host)
    host.begin_autoconf(engine, 0)
    host.begin_autoconf(engine, 5)
    assert len([e for e in host.addresses if e.prefix is None]) == 1


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
