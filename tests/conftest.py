import contextlib
import heapq
import itertools
from pathlib import Path
from unittest import mock

import pytest

import slaacsim.scenario

from slaacsim.addressing import MacAddress, derive_eui64, global_from, is_link_local
from slaacsim.defense import PortClass, SwitchPort, filter_ingress, verify_ra
from slaacsim.engine import Deliver, Engine, SimInvariantError, TraceRecord
from slaacsim.host import (
    AddressEntry,
    AddressState,
    DefaultRouterEntry,
    Host,
    apply_two_hour_rule,
)
from slaacsim.messages import MS, RouterAdvertisement, Timer
from slaacsim.router import Router
from slaacsim.scenario import build_engine, parse_scenario

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def scenario_path(name: str) -> Path:
    return SCENARIO_DIR / f"{name}.txt"


def load(name: str):
    return parse_scenario(scenario_path(name).read_text())


def run_scenario(name: str, seed=None):
    """Parse, build, and execute one shipped scenario; returns (scenario,
    engine, metrics)."""
    sc = load(name)
    engine = build_engine(sc, seed=seed)
    metrics = engine.execute(sc.run_ms)
    return sc, engine, metrics


def link_text(hosts: int, guard: bool, run_s: int) -> str:
    """A generated link like the benchmark's: R1 signing with trusted key k1,
    ``hosts`` hosts and attacker A1 running fake-router from t=5 s. With
    ``guard``, every host checks signatures, A1's port has RA Guard and the
    two-hour rule is on; without it, only H1 checks signatures."""
    lines = [
        f"switch SW1 ports={hosts + 2}",
        "node router R1 mac=00:00:5e:00:53:01 prefix=2001:db8:1::/64 interval=10 jitter=1",
        *(
            f"node host H{i} mac=02:00:00:00:{i >> 8:02x}:{i & 0xff:02x}"
            + (" send=on" if guard or i == 1 else "")
            for i in range(1, hosts + 1)
        ),
        "node attacker A1 mac=00:00:5e:00:53:66 persona-prefix=2001:db8:bad::/64"
        " persona-lifetime=9000 persona-preference=high persona-interval=10 persona-routes=yes",
        "attach R1 SW1.p1 class=router",
        *(f"attach H{i} SW1.p{i + 1} class=host" for i in range(1, hosts + 1)),
        f"attach A1 SW1.p{hosts + 2} class=host",
        *([f"policy SW1.p{hosts + 2} ra-guard", "policy global two-hour-rule"] if guard else []),
        "key R1 k1",
        "trust k1",
        "at 5 attack A1 fake-router",
        f"run {run_s} seed=7",
    ]
    return "".join(line + "\n" for line in lines)


class EveryTimerEngine(Engine):
    """The queue without a horizon: every timer is booked, however long
    after the end of the run it is due."""

    def set_timer(self, node_id, timer, at_ms):
        if at_ms < self.now:
            raise SimInvariantError(f"cannot schedule into the past ({at_ms} < {self.now})")
        bucket = self._buckets.get(at_ms)
        if bucket is None:
            self._buckets[at_ms] = [(node_id, timer)]
            heapq.heappush(self._times, at_ms)
        else:
            bucket.append((node_id, timer))


class HeapQueueEngine(Engine):
    """The queue the calendar queue replaced: one heap of (time, seq, node
    id, action) entries, served in (time, seq) order, with the same horizon
    rule."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._queue = []
        self._seq = itertools.count()

    def schedule(self, at_ms, action):
        if at_ms < self.now:
            raise SimInvariantError(f"cannot schedule into the past ({at_ms} < {self.now})")
        if isinstance(action, Deliver):
            self.metrics.in_flight += len(action.dsts)
        heapq.heappush(self._queue, (at_ms, next(self._seq), None, action))

    def set_timer(self, node_id, timer, at_ms):
        if at_ms < self.now:
            raise SimInvariantError(f"cannot schedule into the past ({at_ms} < {self.now})")
        if at_ms <= self._horizon:
            heapq.heappush(self._queue, (at_ms, next(self._seq), node_id, timer))

    def run_until(self, t_end_ms):
        if t_end_ms < self.now:
            raise SimInvariantError(f"cannot run back in time ({t_end_ms} < {self.now})")
        if t_end_ms > self._horizon:
            raise SimInvariantError(f"cannot run past the run's end ({t_end_ms} > {self._horizon})")
        queue, nodes, metrics = self._queue, self.nodes, self.metrics
        while queue and queue[0][0] <= t_end_ms:
            at, _seq, node_id, action = heapq.heappop(queue)
            self.now = at
            if node_id is not None:
                nodes[node_id].on_timer(self, action, at)
            elif isinstance(action, Deliver):
                metrics.in_flight -= len(action.dsts)
                self._handle_deliver(action, at)
            else:
                self._handle_script(action, at)
        self.now = t_end_ms


class EveryReceiverEngine(Engine):
    """The dispatch the per-kind one replaced: every receiver's on_message is
    called, whatever the message kind."""

    def _handle_deliver(self, event, now):
        msg, port = event.msg, self.node_port[event.src]
        reason = filter_ingress(port, msg)
        for dst in event.dsts:
            if reason is not None:
                self.metrics.dropped += 1
                self.trace(self.switch_id, "ra-dropped", port.port_id, reason, msg.src_ip, dst)
                continue
            self.metrics.delivered += 1
            self.nodes[dst].on_message(self, msg, event.src, now)


class ReferenceHost(Host):
    """The RA handling that host.receive_ra replaced: four methods, and a
    SLAAC entry found by comparing whole prefixes. on_message takes an RA
    through this process_ra, so only an engine that hands each RA to each
    receiver's on_message (EveryReceiverEngine) runs it. Every expiry tick
    sweeps, as before Host kept an expiry floor: this process_ra never
    lowers the floor, so a host that skipped sweeps by it would miss
    expiries."""

    def on_message(self, ctx, msg, sender_id, now):
        if isinstance(msg, RouterAdvertisement):
            ctx.trace(self.node_id, "ra-received", msg.src_ip, msg.router_lifetime, msg.preference)
            self.process_ra(ctx, msg, now)
        else:
            super().on_message(ctx, msg, sender_id, now)

    def on_timer(self, ctx, timer, now):
        if timer is Timer.EXPIRY:
            self.tick_lifetimes(ctx, now)
        else:
            super().on_timer(ctx, timer, now)

    def process_ra(self, ctx, ra, now):
        if not self.ipv6_enabled:
            return
        if self.send_only and not verify_ra(ra, ctx.trusted_keys):
            ctx.trace(self.node_id, "ra-rejected-send", ra.src_ip)
            return
        self._update_router_list(ctx, ra, now)
        for info in ra.prefixes:
            if is_link_local(info.prefix.address):
                ctx.trace(self.node_id, "prefix-ignored", info.prefix, "link-local")
                continue
            if info.prefix.length != 64:
                ctx.trace(self.node_id, "prefix-ignored", info.prefix, "length")
                continue
            self._apply_prefix(ctx, ra, info, now)

    def _update_router_list(self, ctx, ra, now):
        for entry in self.router_list:
            if entry.router_ip == ra.src_ip:
                break
        else:
            entry = None
        if ra.router_lifetime > 0:
            expires = now + ra.router_lifetime * MS
            if entry is None:
                self.router_list.append(DefaultRouterEntry(ra.src_ip, expires, ra.preference, now))
                kind = "router-added"
            else:
                entry.expires_at = expires
                entry.preference = ra.preference
                entry.refreshed_at = now
                kind = "router-refreshed"
            ctx.trace(self.node_id, kind, ra.src_ip, ra.preference, expires)
            ctx.set_timer(self.node_id, Timer.EXPIRY, expires)
        elif entry is not None:
            self.router_list.remove(entry)
            ctx.trace(self.node_id, "router-removed", ra.src_ip, "lifetime-zero")

    def _apply_prefix(self, ctx, ra, info, now):
        for existing in self.addresses:
            if existing.prefix is not None and existing.prefix == info.prefix:
                break
        else:
            existing = None
        if existing is None:
            if info.valid_lifetime == 0:
                ctx.trace(self.node_id, "prefix-ignored", info.prefix, "valid-zero")
                return
            entry = AddressEntry(
                global_from(info.prefix, self.iid),
                AddressState.TENTATIVE,
                prefix=info.prefix,
                valid_until=now + info.valid_lifetime * MS,
                preferred_until=now + info.preferred_lifetime * MS,
            )
            self.addresses.append(entry)
            ctx.set_timer(self.node_id, Timer.EXPIRY, entry.valid_until)
            self._start_dad(ctx, entry, now)
        elif existing.state is not AddressState.ABANDONED:
            self._refresh_lifetimes(ctx, existing, info, now)

    def _refresh_lifetimes(self, ctx, entry, info, now):
        remaining_ms = max(0, (entry.valid_until or now) - now)
        received_ms = info.valid_lifetime * MS
        if ctx.two_hour_rule:
            new_valid_ms = apply_two_hour_rule(remaining_ms, received_ms)
        else:
            new_valid_ms = received_ms
        entry.valid_until = now + new_valid_ms
        entry.preferred_until = min(now + info.preferred_lifetime * MS, entry.valid_until)
        ctx.set_timer(self.node_id, Timer.EXPIRY, entry.valid_until)
        ctx.trace(self.node_id, "addr-lifetime", entry.address, new_valid_ms)


@contextlib.contextmanager
def counting(owner, name):
    """Count the calls of ``owner.name`` made inside the block, each still
    made as written: a mock whose ``call_count`` shows that an oracle's own
    code ran."""
    original = getattr(owner, name)
    with mock.patch.object(owner, name, autospec=True, side_effect=original) as calls:
        yield calls


def reference_host_output(sc) -> str:
    """``sc``'s output with each host a ReferenceHost on an
    EveryReceiverEngine, once it is checked that ReferenceHost.process_ra
    took every RA that reached a host."""
    with counting(ReferenceHost, "process_ra") as calls:
        output = run_output(sc, EveryReceiverEngine, host_class=ReferenceHost)
    assert calls.call_count == output.count(" kind=ra-received ")
    return output


def build_on(sc, engine_class, host_class=Host) -> Engine:
    """``sc`` built on an ``engine_class`` in place of Engine, with each host
    a ``host_class`` in place of Host."""
    with mock.patch.object(slaacsim.scenario, "Engine", engine_class), \
            mock.patch.object(slaacsim.scenario, "Host", host_class):
        return build_engine(sc)


def run_output(sc, engine_class, t_end_ms=None, host_class=Host) -> str:
    """The trace and metrics text of ``sc`` built on an ``engine_class`` (and
    ``host_class``) and executed to ``t_end_ms``, by default its run time."""
    engine = build_on(sc, engine_class, host_class)
    metrics = engine.execute(sc.run_ms if t_end_ms is None else t_end_ms)
    return engine.trace_text() + "\n".join(metrics.to_lines())


def eui64_host(node_id: str, mac: MacAddress) -> Host:
    """An IPv6-only host without SEND whose identifier is the EUI-64 of ``mac``,
    as a bare host line builds it."""
    return Host(node_id, derive_eui64(mac), ipv6_enabled=True, ipv4=None, send_only=False)


def attach(engine: Engine, node) -> None:
    """Put a hand-built node on the link at the next free port ``p<n>``: a
    router-class port for a Router, a host-class one for any other node,
    with neither RA Guard nor an ACL."""
    port_class = PortClass.ROUTER_FACING if isinstance(node, Router) else PortClass.HOST_FACING
    engine.add_node(node, SwitchPort(f"p{len(engine.nodes) + 1}", port_class, False, None))


def queued(engine: Engine):
    """Pending entries in service order, as (time, node id, action): the due
    times in order, each time's entries in booking order. The node id is
    None for anything but a timer. Checks first that the heap holds the time
    of each bucket once and nothing else, and that no bucket is empty."""
    assert sorted(engine._times) == sorted(engine._buckets)
    assert all(engine._buckets.values())
    return [
        (at, node_id, action)
        for at, bucket in sorted(engine._buckets.items())
        for node_id, action in bucket
    ]


def queued_deliveries(engine: Engine):
    """Pending deliveries in event order, as (time, receiver, message): one
    row per receiver of each queued emission, in node order."""
    return [
        (at, dst, action.msg)
        for (at, _, action) in queued(engine)
        if isinstance(action, Deliver)
        for dst in action.dsts
    ]


def queued_timers(engine: Engine):
    """Pending timers in event order, as (time, node, timer)."""
    return [(at, node_id, timer) for (at, node_id, timer) in queued(engine) if node_id is not None]


def records(engine: Engine, kind: str):
    """The records of one kind, in trace order, with their fields named."""
    return [TraceRecord._make(r) for r in engine.trace_records if r[2] == kind]


def attrs(record) -> dict:
    return dict(TraceRecord._make(record).attrs)


@pytest.fixture
def engine():
    return Engine(link_latency_ms=1, seed=0, two_hour_rule=False, switch_id="SW1")
